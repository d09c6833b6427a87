#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json.

    python3 perfbench/spread.py --runs 10 [--workload fig7-replay] [--first-seed 1]
                                [--out runs.json] [--compare earlier.json]

Runs each workload `--runs` times untraced, each with another seed, and
prints for every end-to-end metric its median and its spread: the distance
between the first and third quartiles (`statistics.quantiles(n=4)`) as a
share of the median. A spread must stay within the metric's bound
(`setup_s` excepted) and should stay below a third of it. With
`--compare`, also checks that no median got worse than the earlier file's
by more than the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def spread(values):
    """Interquartile distance over the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return change if better == "lower" else -change


def check(runs, bench, earlier=None):
    """Lines describing each metric, and whether every check held."""
    lines, ok = [], True
    for workload, by_metric in runs.items():
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = by_metric[name]
            median = statistics.median(values)
            s = spread(values)
            status = "steady" if s < bound / 3 else "within bound" if s <= bound else "TOO WIDE"
            if s > bound and name != "setup_s":
                ok = False
            line = f"{workload:12s} {name:14s} median {median:.6g} spread {s:.4f} bound {bound} {status}"
            if earlier is not None:
                before = statistics.median(earlier[workload][name])
                worse = worse_by(before, median, metric["better"])
                line += f" vs earlier {worse:+.4f}"
                if worse > bound:
                    line += " REGRESSED"
                    ok = False
            lines.append(line)
    return lines, ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out")
    parser.add_argument("--compare")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    runs = {}
    for workload in workloads:
        runs[workload] = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            start = time.monotonic()
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            took = time.monotonic() - start
            if done.returncode != 0:
                sys.exit(f"{workload} seed {seed} failed:\n{done.stdout}")
            result = json.loads(done.stdout.splitlines()[-1])
            for name, metric in result["metrics"].items():
                runs[workload][name].append(metric["value"])
            print(f"{workload} seed {seed} ({took:.1f} s): " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1))
    earlier = json.loads(Path(args.compare).read_text()) if args.compare else None
    lines, ok = check(runs, bench, earlier)
    print("\n".join(lines))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
