"""Each library module's `__all__` is exactly what the package re-exports.

`rhosync/__init__.py` imports the public names of the seven library
modules; a name listed in a module's `__all__` but not re-exported, or the
other way round, fails here.
"""

import ast
import importlib
import pathlib

import pytest

import rhosync

LIBRARY = ("topology", "kernel", "unison", "causality", "infimum",
           "layerclock", "lra")


def _reexports():
    tree = ast.parse(pathlib.Path(rhosync.__file__).read_text(encoding="utf-8"))
    out = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out.setdefault(node.module, set()).update(a.name for a in node.names)
    return out


def test_every_library_module_is_reexported():
    assert set(_reexports()) == set(LIBRARY)


@pytest.mark.parametrize("module", LIBRARY)
def test_all_matches_reexports(module):
    mod = importlib.import_module(f"rhosync.{module}")
    assert sorted(mod.__all__) == sorted(_reexports()[module])


def test_the_held_state_oracle_is_gone():
    # The ball-infimum check reads each run as it comes, so no trace keeps
    # process states for it and no module names the levels it read.
    assert not hasattr(rhosync, "oracle_levels")
    assert "oracle_levels" not in rhosync.infimum.__all__
    for cls, attr in ((rhosync.HeldConfigs, "hold"),
                      (rhosync.HeldConfigs, "state"), (rhosync.Trace, "state")):
        assert not hasattr(cls, attr), f"{cls.__name__}.{attr}"
