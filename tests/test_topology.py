"""Graph model tests.

Distance and diameter values are cross-checked against networkx; chordless
cycle lengths against an exhaustive cycle enumeration oracle.
"""

import itertools

import networkx as nx
import pytest

from rhosync import (TopologyError, ball, cyclomatic_bound, generate,
                     graph_params, greatest_hole, load_topology,
                     parse_edge_list)


def to_nx(t):
    g = nx.Graph()
    g.add_nodes_from(t.nodes)
    g.add_edges_from(t.edges)
    return g


def chordless_cycle_oracle(t):
    """Longest chordless cycle by exhaustive enumeration (2 if acyclic)."""
    g = to_nx(t)
    best = 2
    for cyc in nx.simple_cycles(g):
        if len(cyc) < 3:
            continue
        sub = g.subgraph(cyc)
        if all(d == 2 for _, d in sub.degree()):
            best = max(best, len(cyc))
    return best


# -- parsing ---------------------------------------------------------------


def test_parse_edge_list_basic():
    t = parse_edge_list("0 1\n1 2\n# comment\n2 0  # trailing\n")
    assert t.node_count == 3
    assert t.edges == [(0, 1), (0, 2), (1, 2)]
    assert t.diameter == 1


def test_parse_edge_list_duplicate_and_reversed_edges_collapse():
    t = parse_edge_list("0 1\n1 0\n0 1\n1 2")
    assert t.edge_count == 2


@pytest.mark.parametrize("text", [
    "", "# nothing\n", "0 1 2", "0 a", "-1 0", "0 0", "0 1\n3 4",
])
def test_parse_edge_list_rejects(text):
    with pytest.raises(TopologyError):
        parse_edge_list(text)


def test_load_topology_missing_file(tmp_path):
    with pytest.raises(TopologyError):
        load_topology(str(tmp_path / "nope.edges"))


def test_load_topology_roundtrip(tmp_path):
    p = tmp_path / "g.edges"
    p.write_text("0 1\n1 2\n2 3\n")
    t = load_topology(str(p))
    assert t.node_count == 4 and t.diameter == 3


# -- generation ------------------------------------------------------------


def test_generate_ring():
    t = generate("ring", n=6)
    assert t.edge_count == 6
    assert all(len(t.adjacency[p]) == 2 for p in t.nodes)
    assert t.diameter == 3


def test_generate_path():
    t = generate("path", n=5)
    assert t.edge_count == 4 and t.diameter == 4


def test_generate_tree_is_tree():
    for seed in range(4):
        t = generate("tree", n=12, seed=seed)
        assert t.edge_count == 11
        assert nx.is_tree(to_nx(t))


def test_generate_grid():
    t = generate("grid", rows=3, cols=4)
    assert t.node_count == 12
    assert t.edge_count == 3 * 3 + 2 * 4  # rows*(cols-1) + (rows-1)*cols
    assert t.diameter == (3 - 1) + (4 - 1)


def test_generate_random_connected_is_connected_and_deterministic():
    a = generate("random_connected", n=15, p=0.1, seed=3)
    b = generate("random_connected", n=15, p=0.1, seed=3)
    assert a.edges == b.edges
    assert nx.is_connected(to_nx(a))


@pytest.mark.parametrize("kind,kw", [
    ("ring", {"n": 2}), ("path", {"n": 1}), ("tree", {"n": 1}),
    ("grid", {"rows": 1, "cols": 1}), ("random_connected", {"n": 5, "p": 2.0}),
    ("hypercube", {"n": 8}),
])
def test_generate_rejects(kind, kw):
    with pytest.raises(TopologyError):
        generate(kind, **kw)


# -- distances and balls ---------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_distances_match_networkx(seed):
    t = generate("random_connected", n=12, p=0.2, seed=seed)
    g = to_nx(t)
    lengths = dict(nx.all_pairs_shortest_path_length(g))
    for p in t.nodes:
        for q in t.nodes:
            assert t.dist[p][q] == lengths[p][q]
    assert t.diameter == nx.diameter(g)


def test_ball_matches_distance_filter(ring8):
    for p in ring8.nodes:
        for rho in range(0, 6):
            expect = frozenset(q for q in ring8.nodes
                               if ring8.dist[p][q] <= rho)
            assert ball(ring8, p, rho) == expect


def test_ball_rejects_bad_args(ring8):
    with pytest.raises(TopologyError):
        ball(ring8, 99, 1)
    with pytest.raises(TopologyError):
        ball(ring8, 0, -1)


# -- clock sizing parameters -----------------------------------------------


@pytest.mark.parametrize("n", [3, 5, 9])
def test_greatest_hole_ring(n):
    t = generate("ring", n=n)
    assert greatest_hole(t) == (n, True)


def test_greatest_hole_tree():
    t = generate("tree", n=10, seed=1)
    assert greatest_hole(t) == (2, True)


def test_greatest_hole_complete_graph():
    # every cycle of length > 3 has a chord
    edges = "\n".join(f"{u} {v}" for u, v in itertools.combinations(range(5), 2))
    t = parse_edge_list(edges)
    assert greatest_hole(t) == (3, True)


@pytest.mark.parametrize("seed", range(6))
def test_greatest_hole_matches_enumeration_oracle(seed):
    t = generate("random_connected", n=9, p=0.25, seed=seed)
    val, exact = greatest_hole(t)
    assert exact
    assert val == chordless_cycle_oracle(t)


def test_greatest_hole_budget_falls_back_to_n():
    t = generate("ring", n=30)
    assert greatest_hole(t) == (30, False)


def test_cyclomatic_bound():
    t = generate("ring", n=8)
    assert cyclomatic_bound(t) == min(8, 2 * t.diameter)


def test_graph_params(grid23):
    gp = graph_params(grid23)
    assert gp.t_g == 4  # largest chordless cycle is a face
    assert greatest_hole(grid23) == (4, True)
    assert gp.c_g_bound == min(6, 2 * grid23.diameter)
