#!/usr/bin/env python3
"""Builds and runs the campaign benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload fig7-replay --seed 42 --seconds 45 --trace 0

Builds two binaries of the `perfbench` package: the timed one (release
profile) and an attribution one (the simulator's `obs` feature, `obs`
profile). `--trace 0` runs the timed binary and prints the end-to-end
metrics. `--trace 1` runs the traced pass of the timed binary, then the
attribution pass of the other, and prints every per-layer metric. The last
line of standard output is the result JSON. Without `--workload`, every
workload runs untraced and traced.

Build output and the runs' scratch files go to $CARGO_TARGET_DIR, or
`.bench_build` in the checkout. The exit code is 0 when every check passed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ["fig1-suite", "fig7-replay"]
# A run must end within 180 s; leave room for the build check and merging.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build").resolve()


def build():
    """Builds both binaries; returns their paths, or exits on failure."""
    manifest = str(BENCH_DIR / "Cargo.toml")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for extra in ([], ["--profile", "obs", "--features", "obs"]):
        cmd = ["cargo", "build", "--quiet", "--offline", "--locked", "--manifest-path", manifest]
        done = subprocess.run(cmd + (extra or ["--release"]), env=env, timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            sys.exit(done.returncode or 1)
    return target_dir() / "release" / "perfbench", target_dir() / "obs" / "perfbench"


def run_binary(binary, args):
    """Runs one binary; returns (exit code, output lines, result JSON or None)."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    try:
        done = subprocess.run(
            [str(binary)] + args,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: {binary.name} {' '.join(args)} ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 2, [], None
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, lines[:-1] if result is not None else lines, result


def digest_of(lines):
    for line in lines:
        if line.startswith("sim_digest "):
            return line.split()[1]
    return None


def run_one(timed, attributing, workload, seed, seconds, trace):
    """Runs one workload; prints its lines and result; returns the exit code."""
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    code, lines, result = run_binary(timed, common + ["--trace", "1" if trace else "0"])
    print("\n".join(lines))
    if result is None:
        print(f"perfbench: no result from the {workload} run", file=sys.stderr)
        return code or 2
    if trace:
        obs_code, obs_lines, obs_result = run_binary(attributing, common + ["--attribution"])
        print("\n".join(f"attribution: {line}" for line in obs_lines))
        if obs_result is None:
            print(f"perfbench: no result from the {workload} attribution run", file=sys.stderr)
            return obs_code or 2
        result["metrics"].update(obs_result["metrics"])
        result["failed"] += obs_result["failed"]
        result["correct"] = result["correct"] and obs_result["correct"]
        obs_digest = digest_of(obs_lines)
        if obs_digest is not None and obs_digest != digest_of(lines):
            print("problem: the attribution build simulated different cells")
            result["failed"] += 1
            result["correct"] = False
        code = max(code, obs_code)
    print(json.dumps(result))
    return code if code else (0 if result["correct"] else 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    args = parser.parse_args()
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    timed, attributing = build()
    workloads = [args.workload] if args.workload else WORKLOADS
    traces = [bool(args.trace)] if args.trace is not None else [False, True]
    if args.workload and args.trace is None:
        traces = [False]
    worst = 0
    for workload in workloads:
        for trace in traces:
            worst = max(worst, run_one(timed, attributing, workload, args.seed, seconds, trace))
    sys.exit(worst)


if __name__ == "__main__":
    main()
