"""The names the benchmark's span tracer wraps stay defined.

`perfbench/tracing.py` patches rhosync functions by name, and a traced run
raises on a name the program no longer has.  This test resolves every one
of them, so deleting a traced name fails here first.
"""

import functools
import importlib
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(layer, dotted):
    module = importlib.import_module(f"rhosync.{layer}")
    try:
        return callable(functools.reduce(getattr, dotted.split("."), module))
    except AttributeError:
        return False


def test_traced_names_are_defined():
    tracing = _load_tracing()
    assert set(tracing.SPANNED) == set(tracing.LAYERS)
    names = [(layer, dotted) for layer, dotted_names in tracing.SPANNED.items()
             for dotted in dotted_names]
    # patched directly by `install`, outside SPANNED
    names += [("cli", "step"), ("cli", "_sweep_cell"),
              ("unison", "LiftedTrace.level_time")]
    missing = [f"{layer}.{dotted}" for layer, dotted in names
               if not _resolves(layer, dotted)]
    assert missing == []
