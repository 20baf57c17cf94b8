"""Graph model: loading, generation, distances, balls, and clock-sizing parameters.

Node ids are dense integers 0..n-1 and exist for bookkeeping only; the
protocols running on top of a topology never read them unless they declare
an id/coloring requirement.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field

__all__ = [
    "Topology",
    "GraphParams",
    "TopologyError",
    "load_topology",
    "parse_edge_list",
    "generate",
    "ball",
    "greatest_hole",
    "cyclomatic_bound",
    "graph_params",
]


class TopologyError(ValueError):
    """Raised for malformed or unsupported graphs."""


@dataclass(frozen=True)
class Topology:
    """Undirected connected anonymous graph with precomputed distances.

    Attributes:
        node_count: number of processes, n >= 2.
        adjacency: tuple of frozensets, adjacency[p] = neighbors of p.
        dist: all-pairs hop distances, dist[p][q].
        diameter: max over pairs of dist.
    """

    node_count: int
    adjacency: tuple[frozenset[int], ...]
    dist: tuple[tuple[int, ...], ...] = field(repr=False)
    diameter: int

    @property
    def nodes(self) -> range:
        return range(self.node_count)

    @property
    def edges(self) -> list[tuple[int, int]]:
        return [
            (p, q)
            for p in self.nodes
            for q in self.adjacency[p]
            if p < q
        ]

    @property
    def edge_count(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2


@dataclass(frozen=True)
class GraphParams:
    """Parameters that size the clocks built on a topology.

    t_g is the length of the longest chordless cycle (2 for acyclic graphs)
    when the search of `greatest_hole` completed, otherwise the safe upper
    bound n.
    c_g_bound is min(n, 2D), a safe upper bound on the cyclomatic
    characteristic.
    """

    t_g: int
    c_g_bound: int


def _bfs_distances(adjacency: tuple[frozenset[int], ...], src: int) -> list[int]:
    n = len(adjacency)
    dist = [-1] * n
    dist[src] = 0
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def _build(n: int, edges: set[tuple[int, int]]) -> Topology:
    if n < 2:
        raise TopologyError(f"graph must have at least 2 nodes, got {n}")
    neigh: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if u == v:
            raise TopologyError(f"self-loop at node {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise TopologyError(f"edge ({u},{v}) references a node outside 0..{n - 1}")
        neigh[u].add(v)
        neigh[v].add(u)
    adjacency = tuple(frozenset(s) for s in neigh)
    dist_rows = []
    for p in range(n):
        row = _bfs_distances(adjacency, p)
        if any(d < 0 for d in row):
            raise TopologyError("graph is disconnected")
        dist_rows.append(tuple(row))
    dist = tuple(dist_rows)
    diameter = max(max(row) for row in dist)
    return Topology(node_count=n, adjacency=adjacency, dist=dist, diameter=diameter)


def parse_edge_list(text: str) -> Topology:
    """Parse the `u v` per-line edge-list format (`#` starts a comment)."""
    edges: set[tuple[int, int]] = set()
    nodes: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise TopologyError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise TopologyError(f"line {lineno}: non-integer node id in {raw!r}") from exc
        if u < 0 or v < 0:
            raise TopologyError(f"line {lineno}: negative node id in {raw!r}")
        edges.add((min(u, v), max(u, v)))
        nodes.update((u, v))
    if not nodes:
        raise TopologyError("empty edge list")
    n = max(nodes) + 1
    return _build(n, edges)


def load_topology(path: str) -> Topology:
    """Load and validate a topology from an edge-list file."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise TopologyError(f"cannot read topology file {path}: {exc}") from exc
    return parse_edge_list(text)


def generate(kind: str, *, n: int | None = None, rows: int | None = None,
             cols: int | None = None, p: float = 0.2, seed: int = 0) -> Topology:
    """Generate a named topology, deterministically for a fixed seed.

    Kinds: ring (n >= 3), path (n >= 2), tree (uniform random via seeded
    attachment), grid (rows x cols), random_connected (Erdos-Renyi style,
    augmented with a random spanning structure until connected).
    """
    rng = random.Random(seed)
    if kind == "ring":
        if n is None or n < 3:
            raise TopologyError("ring requires n >= 3")
        edges = {(i, (i + 1) % n) for i in range(n)}
        edges = {(min(u, v), max(u, v)) for u, v in edges}
        return _build(n, edges)
    if kind == "path":
        if n is None or n < 2:
            raise TopologyError("path requires n >= 2")
        return _build(n, {(i, i + 1) for i in range(n - 1)})
    if kind == "tree":
        if n is None or n < 2:
            raise TopologyError("tree requires n >= 2")
        edges = {(rng.randrange(i), i) for i in range(1, n)}
        return _build(n, edges)
    if kind == "grid":
        if rows is None or cols is None or rows < 1 or cols < 1 or rows * cols < 2:
            raise TopologyError("grid requires rows, cols with rows*cols >= 2")
        edges = set()
        for r in range(rows):
            for c in range(cols):
                u = r * cols + c
                if c + 1 < cols:
                    edges.add((u, u + 1))
                if r + 1 < rows:
                    edges.add((u, u + cols))
        return _build(rows * cols, edges)
    if kind == "random_connected":
        if n is None or n < 2:
            raise TopologyError("random_connected requires n >= 2")
        if not (0.0 <= p <= 1.0):
            raise TopologyError("random_connected requires 0 <= p <= 1")
        edges = set()
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    edges.add((u, v))
        # Augment with a random spanning tree so the result is connected.
        order = list(range(n))
        rng.shuffle(order)
        for i in range(1, n):
            u = order[i]
            v = order[rng.randrange(i)]
            edges.add((min(u, v), max(u, v)))
        return _build(n, edges)
    raise TopologyError(f"unknown topology kind {kind!r}")


def ball(t: Topology, p: int, rho: int) -> frozenset[int]:
    """Processes within hop distance rho of p."""
    if not (0 <= p < t.node_count):
        raise TopologyError(f"node {p} out of range")
    if rho < 0:
        raise TopologyError("rho must be non-negative")
    row = t.dist[p]
    return frozenset(q for q in t.nodes if row[q] <= rho)


_NODE_BUDGET = 24
_EXPANSION_CAP = 500_000


def greatest_hole(t: Topology) -> tuple[int, bool]:
    """Length of the longest chordless cycle, exact when n <= 24.

    Returns (2, True) for acyclic graphs. Beyond that node budget (or if the
    chordless-path search exceeds an internal work cap on dense graphs)
    returns the safe upper bound n with exact=False.
    """
    n = t.node_count
    if t.edge_count == n - 1:
        return 2, True  # connected with n-1 edges: a tree
    if n > _NODE_BUDGET:
        return n, False
    adj = t.adjacency
    best = 0
    expansions = 0

    def extend(path: list[int], on_path: set[int]) -> bool:
        # path[0] is the smallest vertex of any cycle it can close (canonical
        # root); interior vertices must stay non-adjacent to all earlier
        # non-consecutive path vertices, which keeps every path chordless.
        nonlocal best, expansions
        last = path[-1]
        root = path[0]
        for v in sorted(adj[last]):
            expansions += 1
            if expansions > _EXPANSION_CAP:
                return False
            if v == root and len(path) >= 3:
                best = max(best, len(path))
                continue
            if v <= root or v in on_path:
                continue
            # chordlessness: v may touch only `last` among current path nodes
            # (and the root exactly when it closes the cycle later).
            if any(u in adj[v] for u in path[:-1] if u != root):
                continue
            if root in adj[v] and len(path) >= 2:
                # closing edge exists: v can only be the final vertex
                best = max(best, len(path) + 1)
                continue
            path.append(v)
            on_path.add(v)
            ok = extend(path, on_path)
            on_path.discard(v)
            path.pop()
            if not ok:
                return False
        return True

    for start in range(n):
        if not extend([start], {start}):
            return n, False
    if best == 0:
        return 2, True
    return best, True


def cyclomatic_bound(t: Topology) -> int:
    """Safe upper bound min(n, 2D) on the cyclomatic characteristic."""
    return min(t.node_count, 2 * t.diameter)


def graph_params(t: Topology) -> GraphParams:
    return GraphParams(t_g=max(greatest_hole(t)[0], 2),
                       c_g_bound=cyclomatic_bound(t))
