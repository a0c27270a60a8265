#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

    python3 perfbench/run.py --workload serve_hot_exact --seed 1 \
        --seconds 10 --trace 0 [--size smoke] [rate/thread constants]

Run from the repository root. Builds perfbench/ (the imsr library from
src/ plus the benchmark binary) into .bench_build/ with CMake, runs the
workload, and prints a provenance line, then the result as the last line
of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list, each with its declared unit. Exits non-zero
when the build fails, an output check fails or a declared end-to-end
metric is missing.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not (build_dir / "CMakeCache.txt").exists() and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    for command in (configure,
                    ["cmake", "--build", str(build_dir), "-j", "4"]):
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(command))
    binary = build_dir / "perfbench"
    if not binary.exists():
        fail(f"build produced no {binary}")
    return binary


def source_fingerprint():
    digest = hashlib.sha256()
    for top in ("src", BENCH_DIR.name):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--hot-rate", type=float, required=True)
    parser.add_argument("--cold-rate", type=float, required=True)
    parser.add_argument("--stream-rate", type=float, required=True)
    parser.add_argument("--span-rate", type=float, required=True)
    parser.add_argument("--beside-rate", type=float, required=True)
    parser.add_argument("--event-rate", type=float, required=True)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        fail("BENCHMARK.json not found at the repository root")
    spec = json.loads(spec_path.read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; expected one of "
             f"{workloads}")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_dir)

    command = [str(binary), f"--workload={args.workload}",
               f"--seed={args.seed}", f"--seconds={args.seconds}",
               f"--trace={args.trace}", f"--size={args.size}",
               f"--threads={args.threads}", f"--hot_rate={args.hot_rate}",
               f"--cold_rate={args.cold_rate}",
               f"--stream_rate={args.stream_rate}",
               f"--span_rate={args.span_rate}",
               f"--beside_rate={args.beside_rate}",
               f"--event_rate={args.event_rate}",
               f"--socket_dir={os.path.relpath(build_dir, ROOT)}"]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if len(lines) < 2:
        fail(f"workload exited {done.returncode} without a result")
    provenance = json.loads(lines[0])["provenance"]
    raw = json.loads(lines[-1])

    provenance["git_sha"] = git_sha()
    provenance["source_sha256"] = source_fingerprint()
    provenance["notes"] = raw.get("notes", {})
    print(json.dumps({"provenance": provenance}))

    failures = list(raw["failures"])
    metrics = {}
    for entry in declared:
        name = entry["name"]
        value = raw["metrics"].get(name)
        if value is None and not args.trace:
            failures.append(f"end-to-end metric {name} was not measured")
            continue
        value = 0.0 if value is None else value
        if not math.isfinite(value):
            failures.append(f"metric {name} is not finite")
            continue
        metrics[name] = {"value": value, "unit": entry["unit"]}
    for failure in failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    correct = raw["correct"] and not failures and done.returncode == 0
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
