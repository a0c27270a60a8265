#!/usr/bin/env python3
"""The benchmark's own test: runs every workload at smoke size, untraced
and traced, through BENCHMARK.json's command, and checks each result line
against the declared metrics. Smoke sizes run the same code paths and the
same output checks as the full sizes and finish in seconds.

    python3 perfbench/smoke_test.py

Exits non-zero on the first workload that fails.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check(spec, workload, trace):
    command = spec["command"] + ["--workload", workload, "--seed", "5",
                                 "--seconds", "3", "--trace", str(trace),
                                 "--size", "smoke"]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    label = f"{workload} trace={trace}"
    if done.returncode != 0:
        return f"{label}: exit {done.returncode}\n{done.stderr[-2000:]}"
    lines = done.stdout.strip().splitlines()
    provenance = json.loads(lines[0])["provenance"]
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"{label}: result keys {sorted(result)}"
    if not result["correct"] or result["attempted"] < 1:
        return f"{label}: incorrect or empty result {result}"
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    if [m["name"] for m in declared] != list(result["metrics"]):
        return f"{label}: metric names differ from BENCHMARK.json"
    for entry in declared:
        metric = result["metrics"][entry["name"]]
        if metric["unit"] != entry["unit"] or not math.isfinite(
                metric["value"]):
            return f"{label}: bad metric {entry['name']}: {metric}"
        if not trace and metric["value"] <= 0:
            return f"{label}: end-to-end metric {entry['name']} is not > 0"
    for key in ("nproc", "cpu_model", "compiler", "build_type", "git_sha",
                "obs", "simd", "pool", "seed", "thread_budget"):
        if key not in provenance:
            return f"{label}: provenance lacks {key}"
    print(f"ok   {label}", flush=True)
    return None


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            error = check(spec, workload, trace)
            if error:
                print(f"FAIL {error}", file=sys.stderr)
                sys.exit(1)


if __name__ == "__main__":
    main()
