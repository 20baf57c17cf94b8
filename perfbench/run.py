"""rhosync benchmark: verdict latency on three workloads, plus a traced
per-layer breakdown.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload wave_verify --seed 1 --seconds 40 --trace 0

Each workload runs in a fresh worker process (perfbench/bench.py) with the
checkout's `src` on PYTHONPATH.  With --trace 0 the last stdout line holds
the end-to-end metrics; set-up time is the median of several fresh set-up
processes.  With --trace 1 it holds the per-layer metrics of a traced run.
BENCHMARK.json lists the metrics printed, with their units;
perfbench/README.md defines them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("wave_verify", "lra_roundtrip", "sweep_mixed")
SETUP_PROBES = 15
DEADLINE_S = 170.0  # the whole run must end within 180 s
STATE_DIR = ".perfbench"  # temporary files and span dumps, in the checkout


def _child(argv: list[str], env: dict, timeout: float) -> str:
    """Run a child in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"benchmark child timed out: {' '.join(argv)}")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stray pool workers
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise SystemExit(f"benchmark child failed ({proc.returncode}): "
                         f"{' '.join(argv)}")
    return out


def _reference(workload: str, seed: int) -> str | None:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    return ref.get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "rhosync", "cli.py")):
        print(f"error: no rhosync sources under {src}; run from the root of "
              f"a checkout", file=sys.stderr)
        return 2

    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    start = time.perf_counter()
    env = dict(os.environ, PYTHONPATH=src)
    os.makedirs(os.path.join(root, STATE_DIR), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=os.path.join(root, STATE_DIR))
    worker = [sys.executable, os.path.join(HERE, "bench.py"),
              "--workload", args.workload, "--seed", str(args.seed),
              "--tmp", tmp]
    ref = _reference(args.workload, args.seed)
    if ref:
        worker += ["--reference", ref]

    def left() -> float:
        return DEADLINE_S - (time.perf_counter() - start)

    try:
        if args.trace:
            spans = os.path.join(root, STATE_DIR,
                                 f"spans-{args.workload}.jsonl")
            out = _child(worker + ["--mode", "trace", "--seconds",
                                   str(args.seconds), "--spans-out", spans],
                         env, left())
            lines = out.splitlines()
            result = json.loads(lines[-1])
            metrics = result["metrics"]
        else:
            setup = []
            # The first probe also fills the bytecode cache; it is not timed.
            for i in range(SETUP_PROBES + 1):
                out = _child(worker + ["--mode", "setup"], env, left())
                if i:
                    setup.append(json.loads(out.splitlines()[-1])["setup_s"])
            out = _child(worker + ["--mode", "run", "--seconds",
                                   str(args.seconds)], env, left())
            lines = out.splitlines()
            result = json.loads(lines[-1])
            metrics = dict(result["metrics"],
                           setup_s=statistics.median(setup))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"error: the worker did not measure {', '.join(missing)}",
              file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(f"iterations {result['iterations']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
