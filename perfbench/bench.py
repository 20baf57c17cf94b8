"""Benchmark worker: runs one workload in this (fresh) process.

Modes:
  setup  time import + scenario materialization once, print the seconds;
  run    time verdicts through the public functions of rhosync.cli until
         the time is up, check them, print one JSON line of results;
  trace  alternate untraced and traced iterations, print per-layer metrics.

`perfbench/run.py` starts this script with `src` on PYTHONPATH; run that
instead.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time

# sweep_mixed grid: 3 topologies x 5 protocols x 2 radii x 4 daemons.
SWEEP_AXES = {
    "topo": "ring:4,tree:5,random:6",
    "proto": "ss_ws,trivial,lme,gme,rw",
    "rho": "1,2",
    "daemon": "synchronous,central,distributed_random,adversarial",
}
SWEEP_JOBS = 2


def scenario_params(workload: str, seed: int) -> list[dict]:
    """The scenarios of a workload; their seeds derive from the bench seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "wave_verify":
        return [dict(proto="ss_ws", infimum="lex_pair", daemon="synchronous",
                     rho=2, topo="ring:96", seed=rng.randrange(1 << 20))]
    if workload == "lra_roundtrip":
        return [dict(proto="lme", daemon="central", rho=1, topo="ring:16",
                     seed=rng.randrange(1 << 20)),
                dict(proto="rw", daemon="rho_central", rho=2, topo="grid:3x4",
                     seed=rng.randrange(1 << 20))]
    if workload == "sweep_mixed":
        return [dict(SWEEP_AXES, seed=rng.randrange(1 << 20))]
    raise ValueError(f"unknown workload {workload!r}")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Workload:
    """One iteration = every scenario of the workload, run to its verdict.

    `iterate` returns (timed wall seconds, attempted, failed, digests).  Only
    calls into rhosync.cli are inside the timed regions.  The digests cover
    each report, the final configuration of each run, and the trace or CSV
    bytes written.
    """

    def __init__(self, cli, name: str, seed: int, tmp: str):
        self.cli, self.name, self.tmp = cli, name, tmp
        self.params = scenario_params(name, seed)
        self.grid = os.path.join(tmp, "grid.cfg")
        if name == "sweep_mixed":
            with open(self.grid, "w", encoding="utf-8") as fh:
                for key, value in self.params[0].items():
                    fh.write(f"{key}={value}\n")

    def setup(self) -> None:
        """Materialize the inputs as the run path does: scenario,
        topology, graph parameters, protocol, initial configuration."""
        cli = self.cli
        if self.name == "sweep_mixed":
            scenarios = cli.expand_grid(cli.parse_config_file(self.grid))
        else:
            scenarios = [cli.scenario_from({}, p) for p in self.params]
        for scn in scenarios:
            topo = cli.make_topology(scn.topo)
            proto = cli.build_protocol(scn, topo)
            cli.make_init(scn, proto, topo)

    def iterate(self):
        if self.name == "wave_verify":
            return self._run_path(check=False)
        if self.name == "lra_roundtrip":
            return self._run_path(check=True)
        return self._sweep()

    def _run_path(self, check: bool):
        cli, clock = self.cli, time.perf_counter
        wall, failed, digests = 0.0, 0, []
        for i, params in enumerate(self.params):
            path = os.path.join(self.tmp, f"trace{i}.jsonl")
            try:
                t0 = clock()
                scn = cli.scenario_from({}, params)
                trace = cli.run_scenario(scn)
                if check:
                    cli.write_trace(path, scn, trace)
                report = cli.analyze(scn, trace)
                t1 = clock()
                final = json.dumps(trace.configs[-1], default=repr).encode()
                del trace
                ok = report["violations"] == 0
                digests.append(_sha(json.dumps(
                    report, sort_keys=True, default=repr).encode()))
                digests.append(_sha(final))
                if check:
                    t2 = clock()
                    scn2, trace2 = cli.read_trace(path)
                    report2 = cli.analyze(scn2, trace2)
                    t3 = clock()
                    del trace2
                    wall += t3 - t2
                    ok = ok and report2 == report
                    with open(path, "rb") as fh:
                        digests.append(_sha(fh.read()))
                wall += t1 - t0
            except Exception as exc:  # noqa: BLE001 - a raise is a failed verdict
                print(f"{self.name}: scenario {params} raised "
                      f"{type(exc).__name__}: {exc}", file=sys.stderr)
                ok = False
                digests.append("raised")
            if not ok:
                failed += 1
        return wall, len(self.params), failed, digests

    def _sweep(self):
        cli = self.cli
        out = os.path.join(self.tmp, "sweep.csv")
        t0 = time.perf_counter()
        code = cli.main(["sweep", "--grid", self.grid, "--jobs", str(SWEEP_JOBS),
                         "--out", out])
        wall = time.perf_counter() - t0
        with open(out, "rb") as fh:
            data = fh.read()
        rows = list(csv.reader(data.decode().splitlines()))[1:]
        failed = sum(1 for row in rows if row[7] != "0")
        attempted = len(rows)
        if code != 0 and failed == 0:
            failed = attempted
        return wall, max(attempted, 1), failed, [_sha(data)]


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


class Tally:
    """Verdict counts and output digests over the iterations of a run."""

    def __init__(self, name: str):
        self.name = name
        self.attempted = self.failed = 0
        self.first: list[str] | None = None

    def add(self, attempted: int, failed: int, digests: list[str]) -> None:
        if self.first is None:
            self.first = digests
        elif digests != self.first:
            print(f"{self.name}: outputs differ between iterations",
                  file=sys.stderr)
            failed = max(failed, 1)
        self.attempted += attempted
        self.failed += failed

    def finish(self, reference: str | None) -> str:
        """Print the run's output digest and check it against the
        reference for this seed, if one is recorded."""
        digest = _sha("\n".join(self.first).encode())
        print(f"digest {self.name} outputs={digest} "
              f"parts={','.join(d[:12] for d in self.first)}")
        if reference is not None and reference != digest:
            print(f"{self.name}: digest {digest} differs from the reference "
                  f"{reference}", file=sys.stderr)
            self.failed += 1
        return digest


def _loop(deadline_s: float, body, minimum: int = 1) -> None:
    """Call body() until the next call would likely pass the deadline."""
    start = time.perf_counter()
    longest = 0.0
    calls = 0
    while True:
        t0 = time.perf_counter()
        body()
        calls += 1
        longest = max(longest, time.perf_counter() - t0)
        spent = time.perf_counter() - start
        if calls >= minimum and spent + longest > deadline_s:
            return


def mode_run(work: Workload, seconds: float, reference: str | None) -> dict:
    tally, walls = Tally(work.name), []

    def body():
        wall, attempted, failed, digests = work.iterate()
        walls.append(wall)
        tally.add(attempted, failed, digests)

    _loop(seconds, body)
    tally.finish(reference)
    return {
        "attempted": tally.attempted, "failed": tally.failed,
        "iterations": len(walls),
        "metrics": {
            "verdict_s": statistics.median(walls),
            "peak_rss_mb": _peak_rss_mb(),
            "clean_frac": 1.0 - tally.failed / tally.attempted,
        },
    }


def mode_trace(work: Workload, seconds: float, reference: str | None,
               spans_out: str) -> dict:
    """Untraced and traced iterations alternate; the difference of their
    medians is the tracing overhead."""
    import tracing  # noqa: PLC0415 - only the traced run needs it

    tracer = tracing.Tracer()
    tally, plain, traced, per_iter = Tally(work.name), [], [], []
    last: list = [[], []]

    def body():
        if len(plain) <= len(traced):
            wall, attempted, failed, digests = work.iterate()
            plain.append(wall)
            tally.add(attempted, failed, digests)
            return
        tracer.reset()
        span_dir = tempfile.mkdtemp(dir=work.tmp)
        patches = tracing.install(tracer, span_dir)
        try:
            wall, attempted, failed, digests = work.iterate()
        finally:
            tracing.uninstall(patches)
        groups, counts = tracing.collect_sweep_spans(span_dir)
        shutil.rmtree(span_dir)
        if work.name == "sweep_mixed" and not groups:
            print("sweep_mixed: no spans came back from the pool workers",
                  file=sys.stderr)
            failed = max(failed, 1)
        for key, value in tracer.counts.items():
            counts[key] = counts.get(key, 0) + value
        main = [list(rec) for rec in tracer.spans]
        per_iter.append(tracing.layer_metrics(main, groups, counts, wall))
        traced.append(wall)
        last[:] = [main, groups]
        tally.add(attempted, failed, digests)

    _loop(seconds, body, minimum=2)
    tally.finish(reference)
    metrics = {}
    for key in per_iter[0]:
        values = [m[key] for m in per_iter]
        if isinstance(values[0], int):
            if len(set(values)) != 1:
                print(f"{work.name}: counter {key} differs between traced "
                      f"iterations: {values}", file=sys.stderr)
                tally.failed += 1
            metrics[key] = values[0]
        else:
            metrics[key] = statistics.median(values)
    metrics["trace.overhead_s"] = \
        statistics.median(traced) - statistics.median(plain)
    tracing.write_spans(spans_out, *last)
    return {"attempted": tally.attempted, "failed": tally.failed,
            "iterations": len(traced), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "run", "trace"),
                        required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--reference", default=None)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    from rhosync import cli  # noqa: PLC0415 - timed as set-up
    imported = time.perf_counter() - t0

    work = Workload(cli, args.workload, args.seed, args.tmp)
    if args.mode == "setup":
        t0 = time.perf_counter()
        work.setup()
        print(json.dumps({"setup_s": imported + time.perf_counter() - t0}))
        return 0
    if args.mode == "run":
        result = mode_run(work, args.seconds, args.reference)
    else:
        result = mode_trace(work, args.seconds, args.reference,
                            args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
