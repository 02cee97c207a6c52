"""Determinism self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout. For each workload, two traced runs with
the same seed must report the same inputs, the same output digest and
identical deterministic layer counts (calls, found, connected and true
ratios, instances, iterations, demotions, edges pruned, joint states); a
run with another seed must report different inputs. The runs are made one
after another. Exits 1 on any difference.
"""
from __future__ import annotations

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("card-cli", "dense-search", "verify-numeric")
DETERMINISTIC = (".calls", "found_ratio", "connected_ratio", "true_ratio", "prune_ratio",
                 "patterns.instances", "simplify.iterations", "simplify.demotions",
                 "simplify.edges_pruned", "semantics.joint_states")


def traced_run(workload: str, seed: int) -> tuple[str, str, dict[str, float]]:
    """Input digest, output digest and deterministic counts of one run."""
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    inputs = re.search(r"inputs sha256 (\w+)", proc.stdout).group(1)
    outputs = re.search(r"output digest sha256 (\w+)", proc.stdout).group(1)
    metrics = json.loads(lines[-1])["metrics"]
    counts = {k: v["value"] for k, v in metrics.items()
              if any(k.endswith(s) for s in DETERMINISTIC)}
    return inputs, outputs, counts


def check(workload: str, seed: int = 11, other_seed: int = 12) -> list[str]:
    first = traced_run(workload, seed)
    second = traced_run(workload, seed)
    other = traced_run(workload, other_seed)
    problems = []
    if first[0] != second[0]:
        problems.append("same seed, different inputs")
    if first[1] != second[1]:
        problems.append("same seed, different output digest")
    for key in sorted(first[2]):
        if first[2][key] != second[2].get(key):
            problems.append(f"same seed, {key}: {first[2][key]} != {second[2].get(key)}")
    if first[0] == other[0]:
        problems.append("different seeds, same inputs")
    return problems


def main() -> int:
    failed = False
    for workload in WORKLOADS:
        problems = check(workload)
        failed = failed or bool(problems)
        print(f"{workload}: " + ("ok" if not problems else "; ".join(problems)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
