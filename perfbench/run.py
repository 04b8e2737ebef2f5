#!/usr/bin/env python3
"""Builds and runs the ambience benchmark.

One workload (the last line of standard output is the run's JSON
result):

    python3 perfbench/run.py --workload megacity --seed 1 --seconds 30 --trace 0

Every workload, each in its own process, with a summary of the
end-to-end metrics by name and unit (results also go to
.bench_out/results-seed<n>.json):

    python3 perfbench/run.py --seed 1

Run from the repository root. The program is built from source first
(release profile, offline) into $CARGO_TARGET_DIR, default .bench_build.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

WORKLOADS = ("megacity", "city_faulted", "svc_mix")
DEFAULT_SECONDS = 30
HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Builds ami_svcd and the benchmark binary; returns their paths."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "svc").is_dir():
        fail(f"no ambience workspace at {ROOT}; run from a full checkout")
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    commands = (
        ["cargo", "build", "--release", "--offline", "-p", "ami-svc", "--bin", "ami_svcd"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(HERE / "Cargo.toml")],
    )
    for command in commands:
        # Build chatter goes to stderr: stdout carries only results.
        done = subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(command)}")
    release = target / "release"
    return release / "ami_svcd", release / "ami-perfbench"


def command(bench, svcd, workload, seed, seconds, trace):
    return [
        str(bench), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--svcd", str(svcd), "--root", str(ROOT),
    ]


def run_all(bench, svcd, seed, seconds, trace):
    """Runs every workload and prints the end-to-end metrics by name."""
    results = {}
    ok = True
    for workload in WORKLOADS:
        done = subprocess.run(
            command(bench, svcd, workload, seed, seconds, trace),
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        sys.stdout.write(done.stdout)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"perfbench: {workload} exited with {done.returncode}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        # Each workload prints its metrics under its own names as
        # "metric <name> = <value> <unit>" lines.
        named = {}
        for line in lines:
            if line.startswith("metric "):
                name, _, rest = line[len("metric "):].partition(" = ")
                value, _, unit = rest.partition(" ")
                named[name] = {"value": float(value), "unit": unit}
        results[workload] = {"result": result, "named": named}
        ok = ok and result["correct"]
    print()
    print(f"seed {seed}, {seconds} s per workload")
    for workload, entry in results.items():
        for name, metric in entry["named"].items():
            print(f"  {workload:<13} {name:<15} {metric['value']:.6g} {metric['unit']}")
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"results-seed{seed}.json"
    path.write_text(json.dumps(results, indent=2) + "\n")
    print(f"results written to {path}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    svcd, bench = build()
    if args.workload is None:
        sys.exit(run_all(bench, svcd, args.seed, args.seconds, args.trace))
    done = subprocess.run(
        command(bench, svcd, args.workload, args.seed, args.seconds, args.trace), cwd=ROOT,
    )
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
