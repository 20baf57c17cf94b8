"""A mutation fuzzer for `rhosync check`.

It writes small valid traces, every protocol under every daemon, makes
one typed edit to one line, and holds `check` to this: either it exits 2,
or the edited file holds the JSON values (key order aside, number types
kept) that `run --trace` writes for the file's own header.  That is the
original file whenever the edit leaves the header's scenario alone; an
edited scenario field that its run does not read (`group_count` outside
`gme`) leaves a trace of the edited scenario.
"""

import contextlib
import dataclasses
import functools
import io
import json
import operator
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from rhosync import DAEMONS
from rhosync.cli import (Scenario, build_protocol, main, make_topology,
                         run_scenario)

PROTOS = ("ss_ws", "trivial", "lme", "gme", "rw")
INFIMA = {"ss_ws": ("", "min_int", "lex_pair")}


@functools.lru_cache(maxsize=None)
def written(scenario_json: str) -> tuple[str, ...]:
    """The lines `run --trace` writes for the scenario, given as the JSON
    text of its fields."""
    scn = Scenario(**json.loads(scenario_json))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.jsonl")
        run_scenario(scn, path)
        with open(path, encoding="utf-8") as fh:
            return tuple(fh.read().splitlines())


@functools.lru_cache(maxsize=None)
def labels(proto: str) -> tuple[str, ...]:
    """The action labels of a protocol."""
    scn = Scenario(proto=proto, topo="ring:5")
    proto = build_protocol(scn, make_topology(scn.topo))
    return tuple(a.label for a in proto.actions)


def values(lines) -> list[str]:
    """Each non-blank line as JSON text that is equal iff the values are."""
    return [json.dumps(json.loads(x), sort_keys=True)
            for x in lines if x.strip()]


def sites(value, path=()):
    """Each (path, value) within a JSON value, the value itself first."""
    yield path, value
    if isinstance(value, dict):
        for key, v in value.items():
            yield from sites(v, (*path, key))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from sites(v, (*path, i))


def edits(line):
    """The typed edits of one line: (name, path, new value or None)."""
    out = [("drop_line", (), None), ("duplicate_line", (), None)]
    for path, v in sites(line):
        if type(v) is int:
            out += [("int_to_float", path, float(v)),
                    ("int_to_bool", path, bool(v)),
                    ("plus_1", path, v + 1), ("minus_1", path, v - 1)]
        elif type(v) is float:
            out += [("plus_1", path, v + 1), ("minus_1", path, v - 1)]
        elif isinstance(v, list) and len(v) > 1:
            out.append(("swap", path, None))
        elif isinstance(v, dict):
            out += [("drop_key", (*path, key), None) for key in v]
            out.append(("add_key", (*path, "extra"), 0))
        elif isinstance(v, str) and len(path) == 2 and path[0] == "fired":
            out.append(("label", path, None))
    return out


def check(text: str) -> int:
    """The exit code of `rhosync check` on a file holding `text`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return main(["check", path])


@st.composite
def edited_traces(draw):
    """(the lines of a trace with one edit, the edit's name)."""
    proto = draw(st.sampled_from(PROTOS))
    scenario = {
        **dataclasses.asdict(Scenario()),
        "proto": proto, "daemon": draw(st.sampled_from(DAEMONS)),
        "topo": draw(st.sampled_from(["ring:5", "path:4", "grid:2x3"])),
        "rho": draw(st.integers(1, 2)),
        "steps": draw(st.sampled_from(["1", "12", "60"])),
        "seed": draw(st.integers(0, 1)),
        "init": draw(st.sampled_from(["random_arbitrary", "wu0_uniform"])),
        "infimum": draw(st.sampled_from(INFIMA.get(proto, ("",))))}
    lines = list(written(json.dumps(scenario, sort_keys=True)))
    # Every other line follows from the header's scenario, so an edit of a
    # scenario value is the one that may leave a file that holds together:
    # half the edits are one.
    in_scenario = draw(st.booleans())
    i = 0 if in_scenario else draw(st.integers(0, len(lines) - 1))
    line = json.loads(lines[i])
    name, path, new = draw(st.sampled_from(
        [e for e in edits(line) if len(e[1]) == 2 and e[1][0] == "scenario"
         and e[0] not in ("drop_key", "add_key")]
        if in_scenario else edits(line)))
    edited = list(lines)
    if name == "drop_line":
        del edited[i]
        return edited, name
    if name == "duplicate_line":
        edited.insert(i, lines[i])
        return edited, name
    *head, last = path
    owner = functools.reduce(operator.getitem, head, line)
    if name == "swap":
        seq = owner[last]
        j, k = draw(st.lists(st.integers(0, len(seq) - 1), min_size=2,
                             max_size=2, unique=True))
        seq[j], seq[k] = seq[k], seq[j]
    elif name == "drop_key":
        del owner[last]
    elif name == "label":
        owner[last] = draw(st.sampled_from(
            [lab for lab in labels(proto) if lab != owner[last]]))
    else:
        owner[last] = new
    edited[i] = json.dumps(line)
    return edited, name


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(edited_traces())
def test_check_refuses_every_edit_of_a_value(case):
    edited, name = case
    if check("".join(x + "\n" for x in edited)) == 2:
        return
    header = json.loads(edited[0])["scenario"]
    assert values(edited) == values(
        written(json.dumps(header, sort_keys=True))), name


def test_check_refuses_the_seed_edit_the_fuzzer_found():
    # The fuzzer's first find, when `check` took a seeded daemon's
    # selections on trust: a one-step central ss_ws trace on ring:5 from
    # the uniform start, its header's seed 0 made 1.
    scenario = {**dataclasses.asdict(Scenario()), "topo": "ring:5",
                "daemon": "central", "init": "wu0_uniform", "steps": "1"}
    lines = [json.loads(x)
             for x in written(json.dumps(scenario, sort_keys=True))]
    assert lines[2]["selected"] == [3]
    lines[0]["scenario"]["seed"] = 1
    assert check("".join(json.dumps(x) + "\n" for x in lines)) == 2
