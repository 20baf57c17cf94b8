"""The benchmark's workloads give the outputs recorded for them.

`perfbench/reference.json` holds, per workload and seed, the digest of
every report, final configuration and trace or CSV byte a workload
iteration produces.  This test runs the set-up and one iteration of each
workload at seed 0 through `perfbench/bench.py` and compares, so a change
that alters any output, or a `rhosync.cli` name either mode calls, fails
here, before the benchmark refuses it.  It only reads
`perfbench/`: the worker is compiled from its source, not imported, so no
bytecode cache is written there.
"""

import hashlib
import json
import pathlib
import types

import pytest

from rhosync import cli

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load_bench():
    path = PERFBENCH / "bench.py"
    module = types.ModuleType("_perfbench_bench")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"),
         module.__dict__)
    return module


@pytest.mark.parametrize("name", ["wave_verify", "lra_roundtrip",
                                  "sweep_mixed"])
def test_workload_outputs_match_reference(tmp_path, name):
    bench = _load_bench()
    reference = json.loads((PERFBENCH / "reference.json").read_text(
        encoding="utf-8"))
    workload = bench.Workload(cli, name, 0, str(tmp_path))
    workload.setup()  # the set-up mode calls rhosync.cli names of its own
    _wall, attempted, failed, digests = workload.iterate()
    assert attempted > 0 and failed == 0
    digest = hashlib.sha256("\n".join(digests).encode()).hexdigest()
    assert digest == reference[name]["0"]
