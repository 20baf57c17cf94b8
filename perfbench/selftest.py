"""Self-test of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py

For each workload, two traced runs on one seed must print identical
counters and output digests, and the spans below the rhosync.cli entry
points must cover at least 90% of the traced wall time.  A directory
holding only BENCHMARK.json and perfbench/ must make the benchmark exit
non-zero without a result.
Exits 1 on any failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
SEED = 7
SECONDS = 2


def traced(workload: str) -> tuple[dict, list]:
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=200).stdout
    lines = out.splitlines()
    digests = [line for line in lines if line.startswith("digest ")]
    return json.loads(lines[-1]), digests


def bare_directory_fails() -> bool:
    root = os.path.dirname(HERE)
    state = os.path.join(root, ".perfbench")
    os.makedirs(state, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=state)
    try:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        return proc.returncode != 0 and '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare)


def main() -> int:
    ok = True
    for workload in WORKLOADS:
        (a, da), (b, db) = (traced(workload) for _ in range(2))
        counts = {k: (v["value"], b["metrics"][k]["value"])
                  for k, v in a["metrics"].items() if v["unit"] != "s"
                  and k not in ("kernel.steps_per_s", "trace.span_coverage")}
        differ = {k: v for k, v in counts.items() if v[0] != v[1]}
        coverage = min(a["metrics"]["trace.span_coverage"]["value"],
                       b["metrics"]["trace.span_coverage"]["value"])
        good = (not differ and da == db and a["correct"] and b["correct"]
                and coverage >= 0.9)
        ok = ok and good
        print(f"{workload}: {'ok' if good else 'FAIL'}  counters "
              f"{len(counts) - len(differ)}/{len(counts)} equal, digests "
              f"{'equal' if da == db else 'differ'}, span coverage "
              f"{coverage:.4f}")
        for key, (x, y) in differ.items():
            print(f"  {key}: {x} != {y}")
    bare = bare_directory_fails()
    ok = ok and bare
    print(f"bare directory: {'ok' if bare else 'FAIL'} (must exit non-zero)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
