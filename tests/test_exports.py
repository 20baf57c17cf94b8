"""Each library module's `__all__` is exactly what the package re-exports.

`rhosync/__init__.py` takes the public names of the seven library modules
with `from .module import *`, so a name is listed once, in its module's
`__all__`; a name the package holds that no such list names, or the other
way round, fails here.
"""

import importlib
import types

import pytest

import rhosync

LIBRARY = ("topology", "kernel", "unison", "causality", "infimum",
           "layerclock", "lra")


@pytest.mark.parametrize("module", LIBRARY)
def test_all_matches_reexports(module):
    mod = importlib.import_module(f"rhosync.{module}")
    for name in mod.__all__:
        assert getattr(rhosync, name) is getattr(mod, name), name


def test_the_package_exports_exactly_the_library_lists():
    listed = set().union(*(importlib.import_module(f"rhosync.{m}").__all__
                           for m in LIBRARY))
    public = {name for name, val in vars(rhosync).items()
              if not name.startswith("_")
              and not isinstance(val, types.ModuleType)}
    assert public == listed


def test_the_held_state_oracle_is_gone():
    # The ball-infimum check reads each run as it comes, so no trace keeps
    # process states for it and no module names the levels it read.
    assert not hasattr(rhosync, "oracle_levels")
    assert "oracle_levels" not in rhosync.infimum.__all__
    for cls, attr in ((rhosync.HeldConfigs, "hold"),
                      (rhosync.HeldConfigs, "state"), (rhosync.Trace, "state")):
        assert not hasattr(cls, attr), f"{cls.__name__}.{attr}"


def test_the_attractor_check_is_gone():
    for name in ("check_attractor", "AttractorVerdict"):
        assert not hasattr(rhosync, name)
        assert not hasattr(rhosync.kernel, name)
